"""Public high-level API.

- :class:`GroupKeyServer` — owns the key tree, queues join/leave
  requests, runs periodic batch rekeying, and emits signed rekey
  messages.
- :class:`GroupMember` — a user's key state: holds its leaf-to-root path
  keys, re-derives its own ID after tree restructuring (Theorem 4.2),
  and decrypts the new keys out of ENC/USR packets.

The :class:`~repro.service.group.SecureGroup` facade, which wires a
server to its members and a delivery backend, lives one layer up in
:mod:`repro.service` (``from repro import SecureGroup``).
"""

from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.core.member import GroupMember
from repro.core.policy import (
    HybridBatching,
    ImmediateRekeying,
    PeriodicBatching,
    ThresholdBatching,
    simulate_policy,
)
from repro.core.registrar import Registrar, RequestValidator

__all__ = [
    "GroupConfig",
    "GroupKeyServer",
    "GroupMember",
    "HybridBatching",
    "ImmediateRekeying",
    "PeriodicBatching",
    "Registrar",
    "RequestValidator",
    "ThresholdBatching",
    "simulate_policy",
]
