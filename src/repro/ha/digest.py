"""Canonical state digests: how two key servers prove convergence.

Replication streams *inputs* (WAL records), so a follower's state is
only ever inferred equal to the leader's.  Before a follower may
promote, inference is not enough — handing the group to a diverged
replica silently splits the key space.  The digest closes that gap:
SHA-256 over the canonical JSON of :meth:`GroupKeyServer.snapshot`
(sorted keys, so dict ordering cannot leak in).  The snapshot covers
the full keyed tree, the message-id counter, and the interval count —
everything that determines future key material — and excludes the
pending request queues, which are transient by design.

The leader sends its digest after every committed interval; the
follower compares after applying the same commit.  Equal digests mean
byte-identical trees, not just matching fingerprints.
"""

from __future__ import annotations

from repro.util import canonical_digest


def server_digest(server):
    """The convergence digest of one :class:`GroupKeyServer`."""
    return canonical_digest(server.snapshot())
