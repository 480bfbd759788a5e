"""A toy stream cipher used to encrypt new keys under old keys.

The rekey message carries *encryptions*: the new key of a k-node encrypted
under the key of one of its children.  For the reproduction we need a
cipher that (a) really round-trips, (b) really fails with the wrong key,
and (c) has deterministic output size, so packet-size accounting matches
the paper's 1027-byte ENC packets.  A BLAKE2b-keyed stream XOR with an
appended keyed checksum satisfies all three.

.. warning:: This construction is **not secure** (no nonce, malleable).
   It is a stand-in for the paper's DES-class cipher; only its byte
   counts and round-trip semantics matter to the performance analysis.
"""

from __future__ import annotations

import hashlib

from repro.crypto.keys import SymmetricKey
from repro.errors import CryptoError

_CHECKSUM_LENGTH = 4
#: Keystream bytes per BLAKE2b call.
_BLOCK_LENGTH = 32
_BYTES_LIKE = (bytes, bytearray, memoryview)
_blake2b = hashlib.blake2b
_COUNTER_ZERO = (0).to_bytes(8, "big")


def _as_bytes(name, data):
    """``data`` as ``bytes``; anything but a bytes-like object is refused.

    ``bytes(16)`` would silently read an int as sixteen zero bytes, so
    the constructor is only applied to genuine byte buffers (the wire
    decoder hands over ``memoryview`` slices).
    """
    if data.__class__ is bytes:
        return data
    if isinstance(data, _BYTES_LIKE):
        return bytes(data)
    raise CryptoError(
        "%s must be bytes-like, got %s" % (name, type(data).__name__)
    )


class EncryptedKey:
    """One encryption ``{new_key}_old_key`` as carried in a rekey message.

    ``encryption_id`` is the node ID of the *encrypting* key (the child);
    per the paper's key-identification strategy this uniquely identifies
    the encryption, and the encrypted key's node ID is the child's parent
    ``(id - 1) // d``.
    """

    __slots__ = ("_encryption_id", "_ciphertext")

    def __init__(self, encryption_id, ciphertext):
        if type(encryption_id) is not int:
            raise CryptoError(
                "encryption_id must be an int, got %s"
                % type(encryption_id).__name__
            )
        if encryption_id < 0:
            raise CryptoError("encryption_id must be >= 0")
        self._encryption_id = encryption_id
        self._ciphertext = _as_bytes("ciphertext", ciphertext)

    @property
    def encryption_id(self):
        """Node ID of the encrypting (child) key."""
        return self._encryption_id

    @property
    def ciphertext(self):
        """The opaque ciphertext bytes."""
        return self._ciphertext

    def __len__(self):
        return len(self._ciphertext)

    def __eq__(self, other):
        if not isinstance(other, EncryptedKey):
            return NotImplemented
        return (
            self._encryption_id == other._encryption_id
            and self._ciphertext == other._ciphertext
        )

    def __hash__(self):
        return hash((self._encryption_id, self._ciphertext))

    def __repr__(self):
        return "EncryptedKey(id=%d, %d bytes)" % (
            self._encryption_id,
            len(self._ciphertext),
        )


class XorStreamCipher:
    """Keyed-stream XOR cipher with an integrity checksum.

    ``encrypt`` output length is ``len(plaintext) + 4``: the 4 trailing
    bytes are a keyed checksum so that decryption under the wrong key is
    *detected* rather than yielding garbage silently — mirroring how a
    user discards encryptions that are not on its key path.
    """

    def __init__(self, meter=None):
        self._meter = meter

    @staticmethod
    def _keystream(key, length):
        material = key.material
        if length <= _BLOCK_LENGTH:
            # One block covers a 16-byte key wrap (the rekey hot path).
            stream = _blake2b(
                _COUNTER_ZERO, key=material, digest_size=_BLOCK_LENGTH
            ).digest()
        else:
            stream = b"".join(
                [
                    _blake2b(
                        counter.to_bytes(8, "big"),
                        key=material,
                        digest_size=_BLOCK_LENGTH,
                    ).digest()
                    for counter in range(-(-length // _BLOCK_LENGTH))
                ]
            )
        return stream[:length]

    @staticmethod
    def _checksum(key, data):
        return _blake2b(
            data, key=key.material, digest_size=_CHECKSUM_LENGTH
        ).digest()

    def encrypt(self, plaintext, key):
        """Encrypt ``plaintext`` bytes under ``key``."""
        if not isinstance(key, SymmetricKey):
            raise CryptoError("key must be a SymmetricKey")
        plaintext = _as_bytes("plaintext", plaintext)
        length = len(plaintext)
        # XOR as one big-int op: identical bytes to a per-byte zip,
        # without a genexpr frame per byte (this runs once per tree
        # edge per rekey, thousands of times an interval).
        body = (
            int.from_bytes(plaintext, "big")
            ^ int.from_bytes(self._keystream(key, length), "big")
        ).to_bytes(length, "big")
        if self._meter is not None:
            self._meter.record_encrypt(length)
        return body + self._checksum(key, plaintext)

    def decrypt(self, ciphertext, key):
        """Decrypt; raises :class:`CryptoError` on wrong key / corruption."""
        if not isinstance(key, SymmetricKey):
            raise CryptoError("key must be a SymmetricKey")
        ciphertext = _as_bytes("ciphertext", ciphertext)
        length = len(ciphertext) - _CHECKSUM_LENGTH
        if length < 0:
            raise CryptoError("ciphertext too short")
        plaintext = (
            int.from_bytes(ciphertext[:length], "big")
            ^ int.from_bytes(self._keystream(key, length), "big")
        ).to_bytes(length, "big")
        if self._checksum(key, plaintext) != ciphertext[length:]:
            raise CryptoError("decryption failed: wrong key or corrupt data")
        if self._meter is not None:
            self._meter.record_decrypt(length)
        return plaintext

    def encrypt_key(self, new_key, under_key, encryption_id=None):
        """Encrypt ``new_key`` under ``under_key``, yielding EncryptedKey.

        ``encryption_id`` defaults to the encrypting key's node ID, but
        callers must pass the *current* child node ID explicitly when the
        encrypting key may have moved (a split relocates a u-node while
        its individual key material — and recorded node ID — stays put).
        """
        if not isinstance(new_key, SymmetricKey):
            raise CryptoError("new_key must be a SymmetricKey")
        if encryption_id is None:
            encryption_id = under_key.node_id
        ciphertext = self.encrypt(new_key.material, under_key)
        return EncryptedKey(encryption_id, ciphertext)

    def decrypt_key(self, encrypted, under_key, node_id=0, version=0):
        """Recover the :class:`SymmetricKey` inside ``encrypted``."""
        material = self.decrypt(encrypted.ciphertext, under_key)
        return SymmetricKey(material, node_id=node_id, version=version)


#: Wire size of one <encryption, ID> pair in an ENC packet: a 2-byte
#: encryption ID plus a 16-byte key and the 4-byte checksum.  The paper's
#: 1027-byte ENC packet carries 46 encryptions; with a 15-byte header,
#: (1027 - 15) // 22 = 46 — our framing reproduces that capacity exactly.
ENCRYPTION_WIRE_SIZE = 2 + 16 + _CHECKSUM_LENGTH
