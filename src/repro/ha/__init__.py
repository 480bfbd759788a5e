"""High availability: a hot-standby key server with fenced failover.

The paper's key server is a single point of failure; this package is
the warm-spare deployment that removes it without changing a single
key byte:

- :mod:`repro.ha.lease` — the leader lease file and the monotonically
  increasing **epoch** fencing tokens its acquisitions mint.
- :mod:`repro.ha.replication` — the WAL streaming wire format (CRC-
  carrying frames), the in-memory :class:`DirectLink`, and the
  loopback-TCP server/client the CLI roles use.  Each streamed
  ``commit`` record carries the leader's state digest, the convergence
  proof a follower checks before it may promote.
- :mod:`repro.ha.standby` — :class:`StandbyReplica` (replays the
  stream into a shadow server) and :func:`promote` (lease + epoch +
  fleet resync = the new leader).
- :mod:`repro.ha.soak` — the cluster soak family behind
  ``python -m repro ha-soak`` (:class:`StandbyPair` and three plans:
  ``leader-kill``, ``replication-partition``, ``split-brain``), run by
  the one soak harness in :mod:`repro.chaos.soak`.

The safety argument, end to end: the WAL refuses appends from any
epoch older than the lease's (``StaleEpochError`` before a byte
lands), promotions only mint *larger* epochs, and a replica that
cannot prove digest convergence refuses to promote.  See
``docs/ha.md``.
"""

from repro.ha.lease import Lease
from repro.ha.replication import (
    DirectLink,
    FrameReader,
    LeaderPublisher,
    ReplicationClient,
    ReplicationServer,
    decode_body,
    encode_frame,
)
from repro.ha.standby import StandbyReplica, promote


__all__ = [
    "DirectLink",
    "FrameReader",
    "LeaderPublisher",
    "Lease",
    "ReplicationClient",
    "ReplicationServer",
    "StandbyReplica",
    "decode_body",
    "encode_frame",
    "promote",
]
