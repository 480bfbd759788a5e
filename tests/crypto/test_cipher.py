"""Tests for repro.crypto.cipher."""

import numpy as np
import pytest

from repro.crypto.cipher import (
    ENCRYPTION_WIRE_SIZE,
    EncryptedKey,
    XorStreamCipher,
)
from repro.crypto.keys import KeyFactory
from repro.errors import CryptoError

from tests.hypothesis_compat import given, st


@pytest.fixture
def cipher():
    return XorStreamCipher()


@pytest.fixture
def keys():
    factory = KeyFactory(seed=42)
    return factory.new_key(1, 0), factory.new_key(2, 0)


class TestRoundTrip:
    def test_encrypt_decrypt(self, cipher, keys):
        key, _ = keys
        assert cipher.decrypt(cipher.encrypt(b"hello", key), key) == b"hello"

    def test_empty_plaintext(self, cipher, keys):
        key, _ = keys
        assert cipher.decrypt(cipher.encrypt(b"", key), key) == b""

    def test_wrong_key_detected(self, cipher, keys):
        key, other = keys
        ciphertext = cipher.encrypt(b"secret", key)
        with pytest.raises(CryptoError, match="wrong key or corrupt"):
            cipher.decrypt(ciphertext, other)

    def test_corruption_detected(self, cipher, keys):
        key, _ = keys
        ciphertext = bytearray(cipher.encrypt(b"secret", key))
        ciphertext[0] ^= 0xFF
        with pytest.raises(CryptoError):
            cipher.decrypt(bytes(ciphertext), key)

    def test_ciphertext_length(self, cipher, keys):
        key, _ = keys
        assert len(cipher.encrypt(b"12345", key)) == 5 + 4

    def test_ciphertext_differs_from_plaintext(self, cipher, keys):
        key, _ = keys
        assert cipher.encrypt(b"A" * 64, key)[:64] != b"A" * 64

    def test_too_short_ciphertext_rejected(self, cipher, keys):
        key, _ = keys
        with pytest.raises(CryptoError, match="too short"):
            cipher.decrypt(b"ab", key)

    def test_rejects_non_key(self, cipher):
        with pytest.raises(CryptoError):
            cipher.encrypt(b"x", b"not a key object")

    @given(plaintext=st.binary(max_size=300))
    def test_round_trip_property(self, plaintext):
        cipher = XorStreamCipher()
        key = KeyFactory(seed=7).new_key(0, 0)
        assert cipher.decrypt(cipher.encrypt(plaintext, key), key) == plaintext

    def test_long_plaintext_uses_multiple_keystream_blocks(self, cipher, keys):
        key, _ = keys
        data = bytes(range(256)) * 3
        assert cipher.decrypt(cipher.encrypt(data, key), key) == data


class TestKeyEncryption:
    def test_encrypt_key_round_trip(self, cipher, keys):
        child_key, _ = keys
        new_key = KeyFactory(seed=9).new_key(0, 1)
        encrypted = cipher.encrypt_key(new_key, child_key)
        recovered = cipher.decrypt_key(
            encrypted, child_key, node_id=0, version=1
        )
        assert recovered == new_key
        assert recovered.node_id == 0
        assert recovered.version == 1

    def test_encryption_id_is_encrypting_node(self, cipher, keys):
        child_key, _ = keys
        new_key = KeyFactory(seed=9).new_key(0, 1)
        assert cipher.encrypt_key(new_key, child_key).encryption_id == 1

    def test_wrong_key_fails(self, cipher, keys):
        child_key, other = keys
        encrypted = cipher.encrypt_key(
            KeyFactory(seed=9).new_key(0, 1), child_key
        )
        with pytest.raises(CryptoError):
            cipher.decrypt_key(encrypted, other)

    def test_wire_size_constant_matches_payload(self, cipher, keys):
        """An <encryption, ID> pair costs 2 (ID) + 16 (key) + 4 (checksum)."""
        child_key, _ = keys
        encrypted = cipher.encrypt_key(
            KeyFactory(seed=9).new_key(0, 1), child_key
        )
        assert 2 + len(encrypted.ciphertext) == ENCRYPTION_WIRE_SIZE

    def test_meter_charged(self, keys):
        from repro.crypto.cost import CostMeter, CryptoOp

        meter = CostMeter()
        cipher = XorStreamCipher(meter=meter)
        key, _ = keys
        ciphertext = cipher.encrypt(b"abc", key)
        cipher.decrypt(ciphertext, key)
        assert meter.count(CryptoOp.ENCRYPT) == 1
        assert meter.count(CryptoOp.DECRYPT) == 1


class TestEncryptedKey:
    def test_equality(self):
        assert EncryptedKey(3, b"abc") == EncryptedKey(3, b"abc")
        assert EncryptedKey(3, b"abc") != EncryptedKey(4, b"abc")
        assert EncryptedKey(3, b"abc") != EncryptedKey(3, b"abd")

    def test_hashable(self):
        assert len({EncryptedKey(3, b"abc"), EncryptedKey(3, b"abc")}) == 1

    def test_len(self):
        assert len(EncryptedKey(3, b"abcd")) == 4

    def test_rejects_negative_id(self):
        with pytest.raises(CryptoError):
            EncryptedKey(-1, b"abc")


class TestBytesLikeOnly:
    """``bytes(16)`` is sixteen zero bytes, so ints (and other
    non-buffers) must be refused rather than converted."""

    @pytest.mark.parametrize("bad", [16, 0, True, "abc", [1, 2, 3], None])
    def test_encrypt_rejects_non_buffer_plaintext(self, cipher, keys, bad):
        key, _ = keys
        with pytest.raises(CryptoError, match="bytes-like"):
            cipher.encrypt(bad, key)

    @pytest.mark.parametrize("bad", [20, True, "abcdefgh", None])
    def test_decrypt_rejects_non_buffer_ciphertext(self, cipher, keys, bad):
        key, _ = keys
        with pytest.raises(CryptoError, match="bytes-like"):
            cipher.decrypt(bad, key)

    @pytest.mark.parametrize("bad", [20, "abc", None])
    def test_encrypted_key_rejects_non_buffer_ciphertext(self, bad):
        with pytest.raises(CryptoError, match="bytes-like"):
            EncryptedKey(3, bad)

    @pytest.mark.parametrize(
        "wrap", [bytes, bytearray, memoryview], ids=lambda t: t.__name__
    )
    def test_buffers_are_accepted(self, cipher, keys, wrap):
        key, _ = keys
        ciphertext = cipher.encrypt(wrap(b"payload"), key)
        assert type(ciphertext) is bytes
        assert cipher.decrypt(wrap(ciphertext), key) == b"payload"
        encrypted = EncryptedKey(5, wrap(ciphertext))
        assert type(encrypted.ciphertext) is bytes
        assert encrypted.ciphertext == ciphertext

    def test_memoryview_slice_as_the_wire_decoder_passes(self):
        frame = memoryview(b"\x00\x05abcdef")
        assert EncryptedKey(5, frame[2:]).ciphertext == b"abcdef"

    @pytest.mark.parametrize(
        "bad", [True, False, 3.7, 3.0, "3", None, np.int64(3)], ids=repr
    )
    def test_encryption_id_must_be_a_plain_int(self, bad):
        with pytest.raises(CryptoError):
            EncryptedKey(bad, b"abc")

    def test_encrypt_key_rejects_a_non_int_encryption_id(self, cipher, keys):
        child_key, _ = keys
        new_key = KeyFactory(seed=9).new_key(0, 1)
        with pytest.raises(CryptoError):
            cipher.encrypt_key(new_key, child_key, encryption_id=1.0)
