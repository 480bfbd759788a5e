"""The shipping interval hot path: the array plane.

``GroupConfig.engine`` has two values.  ``"numpy"`` (the default, and
the only path ``serve``, the soaks and the tenants run) is this package;
``"python"`` is the object-level *oracle* — from-scratch marking, one
``coder.parity`` call per block, the packet-by-packet
:class:`~repro.transport.session.RekeySession`, per-member absorption —
kept so tests can hold the array plane to it byte for byte.

- :mod:`~repro.fastpath.marking` — the shipping marker: re-marks only
  the paths a batch touches, with the ancestor frontier as a whole-array
  operation and the per-user needs read off a per-k-node chain table;
- :mod:`~repro.fastpath.session` — a :class:`RekeySession` subclass
  whose per-round reception, block-ID estimation, FEC bookkeeping and
  NACK synthesis are masked array reductions instead of per-user loops,
  and which hands every user's recovered encryptions to the delivery
  layer in one pass;
- :mod:`~repro.fastpath.absorb` — fleet-wide relocation and encryption
  absorption with a shared decryption memo.

Both engines produce **byte-identical protocol output** (rekey message
bytes, tree serialisations, delivery statistics, observability events);
the differential suites in ``tests/fastpath`` and ``tests/keytree``
enforce this.
"""

from __future__ import annotations

#: Engine names accepted by :class:`repro.core.config.GroupConfig`:
#: the shipping array plane first, then the test oracle.
ENGINE_KINDS = ("numpy", "python")
