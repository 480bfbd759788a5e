"""Known-answer vectors for the crypto primitives.

Every byte below was produced by the original per-byte implementation
(generator XOR, re-summed keystream loop).  The primitives have since
been rewritten for speed; these vectors hold the rewrite to the same
output byte for byte, independently of any soak digest.
"""

import pytest

from repro.crypto.cipher import EncryptedKey, XorStreamCipher
from repro.crypto.keys import KeyFactory, SymmetricKey

#: KeyFactory(seed=42).new_key(1, 0): the encrypting (child) key.
CHILD = "599a7424f7ca31bddd647bdbbab28079"
#: KeyFactory(seed=9).new_key(0, 1): the key being wrapped.
WRAPPED = "32c45e501c1960c27f23929feb17646e"

#: plaintext -> ciphertext under CHILD (body || 4-byte keyed checksum)
VECTORS = {
    "key_wrap_16": (
        bytes.fromhex(WRAPPED),
        "ee6f444d2221de4b7908e1de1eea4181fcee423d",
    ),
    "empty": (b"", "65aa5d7a"),
    "two_blocks_33": (
        bytes(range(33)),
        "dcaa181e3a3db88e0e22794af9f02be03ea8b6aa77ac147920de0903aebbd3bb"
        "cc8c91bcb0",
    ),
    "three_blocks_65": (
        bytes(range(65)),
        "dcaa181e3a3db88e0e22794af9f02be03ea8b6aa77ac147920de0903aebbd3bb"
        "ccd7c0d903e370279aa81a37a808276accb68acd758458bd7633981544888dc0"
        "c545c29463",
    ),
}


@pytest.fixture
def child():
    return SymmetricKey(bytes.fromhex(CHILD), node_id=1, version=0)


def test_child_key_vector():
    assert KeyFactory(seed=42).new_key(1, 0).material.hex() == CHILD


def test_new_key_vector():
    key = KeyFactory(seed=2001).new_key(5, 3)
    assert key.material.hex() == "d9a348f0ca700be7936714ca9b9da8b3"
    assert (key.node_id, key.version) == (5, 3)


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_encrypt_vector(child, name):
    plaintext, expected = VECTORS[name]
    assert XorStreamCipher().encrypt(plaintext, child).hex() == expected


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_decrypt_vector(child, name):
    plaintext, ciphertext = VECTORS[name]
    assert (
        XorStreamCipher().decrypt(bytes.fromhex(ciphertext), child)
        == plaintext
    )


def test_encrypt_key_vector(child):
    wrapped = KeyFactory(seed=9).new_key(0, 1)
    encrypted = XorStreamCipher().encrypt_key(wrapped, child)
    assert encrypted.encryption_id == 1
    assert encrypted.ciphertext.hex() == VECTORS["key_wrap_16"][1]


def test_decrypt_key_vector(child):
    encrypted = EncryptedKey(1, bytes.fromhex(VECTORS["key_wrap_16"][1]))
    recovered = XorStreamCipher().decrypt_key(
        encrypted, child, node_id=0, version=1
    )
    assert recovered.material.hex() == WRAPPED
    assert (recovered.node_id, recovered.version) == (0, 1)
