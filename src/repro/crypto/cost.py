"""Per-operation cost model for the key-server processing analysis.

The paper's processing-time and scalability results are *cost accounting*:
the time to process one batch is

    T = n_keygen * c_keygen + n_encrypt * c_encrypt + c_sign
        (+ marking-algorithm time, which is negligible in comparison)

with constants measured on 2001 hardware.  The defaults below are in that
regime — microseconds for symmetric operations, milliseconds for the RSA
signature — and are freely overridable, because only the *shape* of the
resulting curves is asserted by the reproduction (see EXPERIMENTS.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.validation import check_non_negative


class CryptoOp(enum.Enum):
    """The crypto operation classes the server/user cost model charges."""

    KEYGEN = "keygen"
    ENCRYPT = "encrypt"
    DECRYPT = "decrypt"
    SIGN = "sign"
    VERIFY = "verify"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality; Enum's own ``__hash__`` is a Python
    # function (``hash(self._name_)``) and the meter hashes an op on
    # every primitive call.
    __hash__ = object.__hash__


# Bound once for the meter's per-primitive recorders: attribute access
# on an Enum class is a metaclass lookup, not a plain dict hit.
_KEYGEN = CryptoOp.KEYGEN
_ENCRYPT = CryptoOp.ENCRYPT
_DECRYPT = CryptoOp.DECRYPT


@dataclass(frozen=True)
class CostModel:
    """Time constants, in seconds per operation.

    Defaults reflect 2001-era measurements used in the paper's analysis:

    - symmetric key generation:   ~4 µs
    - symmetric key encryption:   ~7 µs  (one 16-byte key under DES-class)
    - symmetric key decryption:   ~7 µs
    - RSA signature:              ~30 ms (1024-bit private-key op)
    - RSA verification:           ~1 ms  (public-key op)
    """

    keygen_seconds: float = 4e-6
    encrypt_seconds: float = 7e-6
    decrypt_seconds: float = 7e-6
    sign_seconds: float = 30e-3
    verify_seconds: float = 1e-3

    def __post_init__(self):
        check_non_negative("keygen_seconds", self.keygen_seconds)
        check_non_negative("encrypt_seconds", self.encrypt_seconds)
        check_non_negative("decrypt_seconds", self.decrypt_seconds)
        check_non_negative("sign_seconds", self.sign_seconds)
        check_non_negative("verify_seconds", self.verify_seconds)
        # The meter charges per primitive call, so the lookup table is
        # built once (the dataclass is frozen — fields cannot drift).
        object.__setattr__(
            self,
            "_table",
            {
                CryptoOp.KEYGEN: self.keygen_seconds,
                CryptoOp.ENCRYPT: self.encrypt_seconds,
                CryptoOp.DECRYPT: self.decrypt_seconds,
                CryptoOp.SIGN: self.sign_seconds,
                CryptoOp.VERIFY: self.verify_seconds,
            },
        )

    def seconds_for(self, op):
        """Cost in seconds of one operation of class ``op``."""
        return self._table[CryptoOp(op)]

    def batch_seconds(self, keygens, encryptions, signatures=1):
        """Modelled server time for one rekey batch."""
        check_non_negative("keygens", keygens, integral=True)
        check_non_negative("encryptions", encryptions, integral=True)
        check_non_negative("signatures", signatures, integral=True)
        return (
            keygens * self.keygen_seconds
            + encryptions * self.encrypt_seconds
            + signatures * self.sign_seconds
        )


@dataclass
class CostMeter:
    """Accumulates operation counts and modelled seconds.

    The crypto primitives accept an optional meter and charge it on every
    call; analyses that never touch real bytes can charge the meter
    directly via :meth:`charge`.
    """

    model: CostModel = field(default_factory=CostModel)
    counts: dict = field(default_factory=dict)
    seconds: float = 0.0

    def _bump(self, op, n=1):
        if op.__class__ is not CryptoOp:
            op = CryptoOp(op)
        counts = self.counts
        counts[op] = counts.get(op, 0) + n
        self.seconds += n * self.model._table[op]

    def record_keygen(self):
        self._bump(_KEYGEN)

    def record_encrypt(self, nbytes=16):
        # Per-key encryption cost; nbytes kept for interface symmetry.
        self._bump(_ENCRYPT)

    def record_decrypt(self, nbytes=16):
        self._bump(_DECRYPT)

    def record_sign(self):
        self._bump(CryptoOp.SIGN)

    def record_verify(self):
        self._bump(CryptoOp.VERIFY)

    def charge(self, op, count=1):
        """Charge ``count`` operations of class ``op`` without doing them."""
        check_non_negative("count", count, integral=True)
        self._bump(op, count)

    def count(self, op):
        """Number of operations of class ``op`` recorded so far."""
        return self.counts.get(CryptoOp(op), 0)

    def reset(self):
        """Zero all counters."""
        self.counts.clear()
        self.seconds = 0.0

    def snapshot(self):
        """Return ``(counts-by-name, seconds)`` for reporting."""
        return (
            {op.value: n for op, n in sorted(self.counts.items(), key=lambda kv: kv[0].value)},
            self.seconds,
        )
