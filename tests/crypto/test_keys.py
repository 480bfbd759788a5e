"""Tests for repro.crypto.keys."""

import enum

import numpy as np
import pytest

from repro.crypto.keys import KEY_LENGTH, KeyFactory, SymmetricKey
from repro.errors import ConfigurationError, CryptoError

from tests.hypothesis_compat import given, st


class TestSymmetricKey:
    def test_holds_material(self):
        key = SymmetricKey(b"\x01" * 16, node_id=3, version=2)
        assert key.material == b"\x01" * 16
        assert key.node_id == 3
        assert key.version == 2

    def test_rejects_short_material(self):
        with pytest.raises(CryptoError):
            SymmetricKey(b"\x01" * 15)

    def test_rejects_long_material(self):
        with pytest.raises(CryptoError):
            SymmetricKey(b"\x01" * 17)

    def test_rejects_non_bytes(self):
        with pytest.raises(CryptoError):
            SymmetricKey("x" * 16)

    def test_equality_is_material_only(self):
        a = SymmetricKey(b"\x02" * 16, node_id=1, version=0)
        b = SymmetricKey(b"\x02" * 16, node_id=9, version=5)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = SymmetricKey(b"\x02" * 16)
        b = SymmetricKey(b"\x03" * 16)
        assert a != b

    def test_not_equal_to_bytes(self):
        assert SymmetricKey(b"\x02" * 16) != b"\x02" * 16

    def test_fingerprint_is_stable_hex(self):
        key = SymmetricKey(b"\x04" * 16)
        assert key.fingerprint() == SymmetricKey(b"\x04" * 16).fingerprint()
        int(key.fingerprint(), 16)  # valid hex

    def test_repr_mentions_identity(self):
        assert "node_id=7" in repr(SymmetricKey(b"\x05" * 16, node_id=7))

    def test_accepts_bytearray(self):
        assert SymmetricKey(bytearray(16)).material == bytes(16)


class TestKeyFactory:
    def test_deterministic_per_seed(self):
        assert (
            KeyFactory(seed=1).new_key(5, 0)
            == KeyFactory(seed=1).new_key(5, 0)
        )

    def test_distinct_across_seeds(self):
        assert (
            KeyFactory(seed=1).new_key(5, 0)
            != KeyFactory(seed=2).new_key(5, 0)
        )

    def test_distinct_across_node_ids(self):
        factory = KeyFactory(seed=1)
        assert factory.new_key(1, 0) != factory.new_key(2, 0)

    def test_distinct_across_versions(self):
        factory = KeyFactory(seed=1)
        assert factory.new_key(1, 0) != factory.new_key(1, 1)

    def test_counts_generated_keys(self):
        factory = KeyFactory()
        for i in range(5):
            factory.new_key(i, 0)
        assert factory.generated_count == 5

    def test_key_length(self):
        assert len(KeyFactory().new_key(0, 0).material) == KEY_LENGTH

    def test_identity_recorded(self):
        key = KeyFactory().new_key(12, 3)
        assert key.node_id == 12
        assert key.version == 3

    def test_charges_meter(self):
        from repro.crypto.cost import CostMeter, CryptoOp

        meter = CostMeter()
        factory = KeyFactory(seed=0, meter=meter)
        factory.new_key(0, 0)
        factory.new_key(1, 0)
        assert meter.count(CryptoOp.KEYGEN) == 2

    @given(
        node_a=st.integers(0, 10_000),
        node_b=st.integers(0, 10_000),
        version_a=st.integers(0, 100),
        version_b=st.integers(0, 100),
    )
    def test_injective_over_identity(self, node_a, node_b, version_a, version_b):
        """Distinct (node, version) pairs always yield distinct material."""
        factory = KeyFactory(seed=99)
        key_a = factory.new_key(node_a, version_a)
        key_b = factory.new_key(node_b, version_b)
        if (node_a, version_a) != (node_b, version_b):
            assert key_a != key_b
        else:
            assert key_a == key_b


class _Identity(enum.IntEnum):
    NODE = 12


class TestIdentityValidationParity:
    """Node IDs and versions get exactly the validator's verdict: the
    plain-int shortcut in the constructors changes no outcome."""

    REJECTED = [True, False, -1, 2.5, 3.0, np.int64(3), np.int64(-1)]

    @pytest.mark.parametrize("bad", REJECTED, ids=repr)
    def test_symmetric_key_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            SymmetricKey(b"\x01" * 16, node_id=bad)
        with pytest.raises(ConfigurationError):
            SymmetricKey(b"\x01" * 16, version=bad)

    @pytest.mark.parametrize("bad", REJECTED, ids=repr)
    def test_new_key_rejects(self, bad):
        factory = KeyFactory(seed=1)
        with pytest.raises(ConfigurationError):
            factory.new_key(bad, 0)
        with pytest.raises(ConfigurationError):
            factory.new_key(0, bad)
        assert factory.generated_count == 0

    def test_int_subclass_is_normalised(self):
        key = SymmetricKey(b"\x01" * 16, node_id=_Identity.NODE, version=0)
        assert type(key.node_id) is int and key.node_id == 12
        derived = KeyFactory(seed=1).new_key(_Identity.NODE, _Identity.NODE)
        assert type(derived.node_id) is int and type(derived.version) is int
        assert derived == KeyFactory(seed=1).new_key(12, 12)

    def test_bytes_subclass_material_is_copied_to_bytes(self):
        class Material(bytes):
            pass

        key = SymmetricKey(Material(b"\x07" * 16))
        assert type(key.material) is bytes
